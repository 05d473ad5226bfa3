"""Determinism self-check: run it before any timing.

For one seed, every workload runs twice, each time in a fresh process
with the benchmark's pinned environment, and executes one traced pass.
The two processes must issue the same request sequence and report, per
request, the same answer and exactly the same work counters
(``batch_predicates`` and the other scorer counters, merge evaluations,
DT candidates, NAIVE predicates, service hits and misses).  Work that
varies between processes is a bug to fix, not noise for the bounds to
absorb.

    python3 perfbench/selfcheck.py [--seed 0] [--workload NAME ...]

``--write-goldens`` records the first process's answers as the goldens
(after the two processes agree).  Exit status 0 when every workload
repeats exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import goldens
from run import SETUP_TIMEOUT, WORKERS, spawn

#: Upper bound on one counting pass, in seconds.
COUNT_TIMEOUT = 170.0


def check(root: Path, workload: str, seed: int) -> tuple[list[str], dict]:
    runs = [spawn(root, workload, seed, "count", 0.0,
                  SETUP_TIMEOUT + COUNT_TIMEOUT)[1] for _ in range(2)]
    first, second = (run["requests"] for run in runs)
    problems = []
    if [r["key"] for r in first] != [r["key"] for r in second]:
        problems.append("request sequences differ")
    for a, b in zip(first, second):
        for field in ("answer", "signature", "layer_counts"):
            if a[field] != b[field]:
                problems.append(f"{a['key']}: {field} {a[field]} != {b[field]}")
    answers = {r["key"]: r["answer"] for r in first}
    return problems, answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKERS))
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    status = 0
    for workload in args.workload or sorted(WORKERS):
        problems, answers = check(root, workload, args.seed)
        print(f"{workload}: {len(answers)} distinct requests, "
              f"{'repeats exactly' if not problems else 'DIFFERS'}")
        for problem in problems[:10]:
            print(f"  {problem}")
        if problems:
            status = 1
        elif args.write_goldens:
            goldens.write(workload, answers)
            print(f"  goldens written to {goldens.path(workload)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
