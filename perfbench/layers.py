"""Outside-in layer trace for the end-to-end benchmark.

The tracer times calls into each layer's public entry points by
replacing those attributes with timing wrappers for as long as it is
installed; nothing inside ``src/`` is edited.  Each wrapped call is a
span (layer, start, end, parent).  A layer's *busy* time is the sum of
its spans; its *self* time is busy minus the part covered by nested
wrapped calls, so the layers' self times add up to the traced wall time
spent inside wrapped code.

``uninstall`` restores the original attributes, so an untraced request
runs the pristine program.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (layer, module, class or None for a module function, attribute).
ENTRY_POINTS = (
    ("service.request", "repro.service.service", "ExplainService", "explain_request"),
    ("service.key", "repro.service.service", None, "request_key"),
    ("scorpion.build", "repro.core.scorpion", "Scorpion", "build_scorer"),
    ("scorpion.explain", "repro.core.scorpion", "Scorpion", "explain"),
    ("dt", "repro.core.dt", "DTPartitioner", "run"),
    ("mc", "repro.core.mc", "MCPartitioner", "run"),
    ("naive", "repro.core.naive", "NaivePartitioner", "run"),
    ("merger", "repro.core.merger", "Merger", "run"),
    ("influence.score_batch", "repro.core.influence", "InfluenceScorer", "score_batch"),
    ("index.prepare", "repro.core.influence", "InfluenceScorer", "prepare_index"),
    ("parallel.start", "repro.core.influence", "InfluenceScorer", "prepare_parallel"),
)


def _merger_counts(counts, args, result):
    report = args[0].report
    counts["merge_evaluations"] += report.n_merge_evaluations
    counts["expanded"] += report.n_expanded


def _dt_counts(counts, args, result):
    counts["candidates"] += len(result.candidates)


def _naive_counts(counts, args, result):
    counts["predicates"] += result.n_evaluated


def _batch_counts(counts, args, result):
    counts["predicates"] += len(result)


#: Work counted at the boundary, from the call's own report or result.
_COUNTERS = {
    "merger": _merger_counts,
    "dt": _dt_counts,
    "naive": _naive_counts,
    "influence.score_batch": _batch_counts,
}

#: Spans kept verbatim for the report (the first traced request's tree).
MAX_KEPT_SPANS = 2000


class LayerTracer:
    """Per-layer calls / busy / self seconds / work counts, plus the span
    list of the first traced request."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._originals: list[tuple] = []
        self._request = None
        self._keep_spans = False
        self._next_id = 0

    # ------------------------------------------------------------------
    def install(self, request_id: str, keep_spans: bool = False) -> None:
        """Wrap every entry point; spans are tagged with ``request_id``."""
        self._request = request_id
        self._keep_spans = keep_spans
        for layer, module_name, class_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
        self._keep_spans = False

    def _wrap(self, layer: str, fn):
        stack = self._stack
        count = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if self._keep_spans and len(self.spans) < MAX_KEPT_SPANS:
                frame[1] = self._next_id
                self._next_id += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[layer] += 1
                self.busy[layer] += elapsed
                self.self_s[layer] += elapsed - frame[0]
                if frame[1] is not None:
                    self.spans.append({"id": frame[1], "layer": layer,
                                       "parent": parent,
                                       "request": self._request,
                                       "start": start, "end": start + elapsed})
            if count is not None:
                count(self.counts[layer], args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Totals per layer: calls, busy_s, self_s and work counts."""
        return {
            layer: {"calls": self.calls[layer],
                    "busy_s": self.busy[layer],
                    "self_s": self.self_s[layer],
                    **dict(self.counts[layer])}
            for layer in sorted(self.calls)
        }
