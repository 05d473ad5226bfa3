"""Golden answers: each request key's top explanation, as
[predicate text, influence], in ``goldens/<workload>.json``.

``selfcheck.py --write-goldens`` records them.  An answer matches when
the predicate text is identical and the influence agrees to a relative
1e-9: the seeded row order of ``mc-expenses`` and ``naive-synth2d``
changes the order of floating-point sums, nothing else.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DIRECTORY = Path(__file__).resolve().parent / "goldens"
INFLUENCE_RTOL = 1e-9


def path(workload: str) -> Path:
    return DIRECTORY / f"{workload}.json"


def load(workload: str) -> dict:
    """Key -> [predicate text, influence]; empty when none is recorded."""
    try:
        with open(path(workload)) as handle:
            return json.load(handle)["answers"]
    except FileNotFoundError:
        return {}


def write(workload: str, answers: dict) -> None:
    DIRECTORY.mkdir(exist_ok=True)
    with open(path(workload), "w") as handle:
        json.dump({"workload": workload, "answers": answers}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


def same_answer(answer, expected) -> bool:
    if answer[0] != expected[0]:
        return False
    if answer[1] is None or expected[1] is None:
        return answer[1] == expected[1]
    return math.isclose(answer[1], expected[1], rel_tol=INFLUENCE_RTOL)
