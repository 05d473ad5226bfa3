"""End-to-end explain benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dt-synth3d --seed 0 --seconds 14 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probe import REFERENCE_S, probe

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

#: SCORPION_WORKERS per workload (the machine this was tuned on has 2 CPUs).
WORKERS = {"dt-synth3d": 1, "mc-expenses": 1, "naive-synth2d": 2,
           "session-intel": 1}

#: Set-up is timed in this many fresh processes per run (the measuring
#: process included) and reported as their median.
SETUP_SAMPLES = 3
#: Hard limits on one child process, in seconds.
SETUP_TIMEOUT = 40.0
MEASURE_GRACE = 60.0


def pinned_env(workload: str, root: Path) -> dict:
    """The child environment: every ``SCORPION_*`` variable scrubbed,
    then the pins.  Cost-model timer calibration is off so routing never
    depends on timer noise; BLAS/OpenMP pools have one thread so the
    two-worker workload does not oversubscribe the CPUs; the hash seed is
    fixed so set iteration order repeats between processes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCORPION_")}
    env.update(pins(workload))
    env["PYTHONPATH"] = str(root / "src")
    return env


def pins(workload: str) -> dict:
    return {
        "SCORPION_COST_CALIBRATE": "off",
        "SCORPION_WORKERS": str(WORKERS[workload]),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    }


def spawn(root: Path, workload: str, seed: int, mode: str,
          seconds: float, timeout: float) -> tuple[float, dict]:
    """Run one worker; returns (reference seconds from start to READY,
    result).  The set-up time is scaled by the mean of a probe taken here
    just before the start and one the worker takes just after READY."""
    before = probe()
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=root, env=pinned_env(workload, root),
                               stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    ready = None
    result = None
    try:
        for line in process.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or ready is None or result is None:
        raise RuntimeError(f"{mode} worker for {workload} failed (exit {code})")
    return ready * REFERENCE_S / ((before + result["probe_s"]) / 2), result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_layer_table(workload: str, result: dict) -> None:
    """Per request kind: each layer's calls, busy and self seconds per
    traced request, and its self share of the traced wall time."""
    for kind, part in result["layers_by_kind"].items():
        n, wall = part["requests"], part["wall_s"]
        print(f"# {workload}, {n} traced {kind} requests; per request:")
        print(f"#   {'layer':<24}{'calls':>9}{'busy_s':>12}{'self_s':>12}{'self %':>8}")
        layers = sorted(part["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        covered = 0.0
        for name, totals in layers:
            covered += totals["self_s"]
            print(f"#   {name:<24}{totals['calls'] / n:>9.4g}"
                  f"{totals['busy_s'] / n:>12.5f}{totals['self_s'] / n:>12.5f}"
                  f"{100 * totals['self_s'] / wall:>7.1f}%")
        print(f"#   {'(outside wrapped calls)':<24}{'':>9}{'':>12}"
              f"{(wall - covered) / n:>12.5f}{100 * (wall - covered) / wall:>7.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end explain benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in WORKERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The build: byte-compile the package once, outside every timing.
    compileall.compile_dir(str(root / "src"), quiet=2)

    scrubbed = sorted(k for k in os.environ if k.startswith("SCORPION_"))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"pins {pins(args.workload)}; SCORPION_* removed: {scrubbed or 'none set'}")
    problems: list[str] = []
    setups: list[float] = []
    warmups: list[dict] = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, result = spawn(root, args.workload, args.seed, "setup",
                                  0.0, SETUP_TIMEOUT)
            setups.append(ready)
            warmups.append(result["warmup"])
            problems += result["problems"]
    mode = "trace" if args.trace else "measure"
    ready, result = spawn(root, args.workload, args.seed, mode, args.seconds,
                          SETUP_TIMEOUT + 2 * args.seconds + MEASURE_GRACE)
    setups.append(ready)
    warmups.append(result["warmup"])
    problems += result["problems"]
    if any(w != warmups[0] for w in warmups):
        problems.append("warm-up answer or work counters differ between "
                        f"fresh processes: {warmups}")

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    for key, value in result["info"].items():
        print(f"# {key}: {_fmt(value)}")
    if args.trace:
        print_layer_table(args.workload, result)
        OUT.mkdir(exist_ok=True)
        report = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        report.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "pins": pins(args.workload), "scrubbed": scrubbed,
            "info": result["info"],
            "metrics": metrics, "layers": result["layers"],
            "layers_by_kind": result["layers_by_kind"],
            "first_request_spans": result["spans"],
        }, indent=1))
        print(f"# layer report written to {report.relative_to(root)}")
    else:
        print(f"# setup_s samples: {[round(s, 4) for s in setups]}")
    for metric in declared:
        print(f"# {metric['name']} = {_fmt(metrics[metric['name']])} {metric['unit']}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")

    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
