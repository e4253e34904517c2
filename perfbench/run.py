#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table3-20k --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload untraced and then traced over the same actions and prints
the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it (each starting with ``#``) are for people.

``--repeat N`` is the steadiness tool: it runs the workload N times in
fresh processes (seeds ``seed .. seed+N-1``) and prints each metric's
median, IQR and max/min, plus the calibration loop timed before and
after each run, so that a slow run can be traced to the host.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-up repetitions per end-to-end run (``setup_s`` takes their median);
#: the timed loop runs in as many segments, one after each.
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "actions_per_s": "1/s",
    "action_ms.p50": "ms",
    "action_ms.tail": "ms",
    "action_ms.gmean": "ms",
    "peak_rss_mb": "MB",
}

PER_BACKEND = ("postgres", "asterixdb", "mongodb", "neo4j", "greenplum", "asterixdb-4n", "mongodb-4n")


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: shows how fast the host ran (never used to scale)."""
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        timings.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(timings)


def pin_environment() -> None:
    """Drop every ``REPRO_*`` knob so each run measures the default configuration."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def effective_settings(workload, seed: int) -> dict:
    """The configuration the loaded systems actually run with."""
    connectors = list(workload.connectors.values())
    databases = [getattr(c, "_db", None) for c in connectors]
    engines = []
    for db in databases:
        nodes = getattr(db, "nodes", None) or [db]
        engines.extend(getattr(node, "exec_engine", None) for node in nodes)
    clusters = [db for db in databases if hasattr(db, "nodes")]

    def off(objects, attribute, env):
        on = any(getattr(o, attribute, None) not in (None, False) for o in objects) or env in os.environ
        return "on" if on else "off"

    return {
        "opt_level": sorted({getattr(c, "optimization_level", None) for c in connectors}, key=str),
        "exec_engine": sorted({e for e in engines if e is not None}) or "n/a",
        "dispatch": sorted({getattr(getattr(db, "dispatcher", None), "mode", "?") for db in clusters})
        or "single-node",
        "replication": sorted({getattr(db, "replication_factor", "?") for db in clusters}) or 1,
        "result_cache": off(connectors + clusters, "result_cache", "REPRO_CACHE"),
        "deadline": off(connectors, "deadline", "REPRO_DEADLINE"),
        "admission": off(connectors + clusters, "admission", "REPRO_ADMISSION"),
        "tracing": off(connectors, "tracer", "REPRO_TRACE"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "rows": workload.rows,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_timed(workload) -> float:
    gc.collect()
    started = time.perf_counter()
    workload.build()
    return time.perf_counter() - started


def prepare(workload, errors: list[str]) -> float:
    """Reference answers, one untimed warm-up block and the set-up checks; returns their time."""
    from perfbench.workloads import run_blocks

    started = time.perf_counter()
    workload.prepare()
    warm = run_blocks(workload, "warmup", blocks=1, errors=errors)
    errors.extend(workload.warm_up_checks())
    if warm.failed:
        errors.append(f"warm-up: {warm.failed} of {warm.attempted} actions failed")
    return time.perf_counter() - started


def run_end_to_end(workload, seconds: float, errors: list[str]) -> tuple[dict, object]:
    """Set up, then time the loop in segments, one after each set-up repetition.

    The system under test is the first build. Each later repetition builds
    a spare copy of the same systems (timed for ``setup_s``, then dropped)
    between two timed segments, so the timed loop is spread over the whole
    run and samples more of the shared host's slow and fast stretches.
    ``peak_rss_mb`` is read before the first spare copy exists.
    """
    from perfbench import stats
    from perfbench.workloads import run_blocks

    builds = [build_timed(workload)]
    finish = prepare(workload, errors)
    min_actions = stats.min_samples_for_tail(workload.tail_q)
    out = None
    rss = 0.0
    for segment in range(SETUP_REPS):
        if segment:
            spare = type(workload)(workload.seed, workload.rows)
            builds.append(build_timed(spare))
            del spare
        gc.collect()
        last = segment == SETUP_REPS - 1
        out = run_blocks(workload, "timed", seconds=seconds / SETUP_REPS, errors=errors, out=out,
                         min_actions=min_actions if last else 1)
        if not segment:
            rss = peak_rss_mb()
    print(f"# set-up builds {', '.join(f'{b:.2f}' for b in builds)} s; "
          f"reference + warm-up {finish:.2f} s")
    ms = [latency * 1000.0 for latency in out.latencies]
    tail, n, beyond = stats.tail(ms, workload.tail_q)
    print(f"# action_ms.tail = p{workload.tail_q * 100:g} of {n} samples ({beyond} beyond it); "
          f"{out.blocks} blocks in {out.elapsed:.2f} s")
    metrics = {
        "setup_s": statistics.median(builds) + finish,
        "actions_per_s": (out.attempted - out.failed) / out.elapsed,
        "action_ms.p50": stats.percentile(ms, 0.5),
        "action_ms.tail": tail,
        "action_ms.gmean": stats.gmean(ms),
        "peak_rss_mb": rss,
    }
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, out


def run_traced(workload, seed: int, seconds: float, errors: list[str]) -> tuple[dict, object]:
    from perfbench import tracing
    from perfbench.workloads import run_blocks

    build_timed(workload)
    prepare(workload, errors)
    gc.collect()
    untraced = run_blocks(workload, "untraced", seconds=seconds / 2, errors=errors)
    gc.collect()
    tracer = tracing.Tracer(list(workload.connectors.values()))
    with tracer:
        traced = run_blocks(workload, "traced", blocks=untraced.blocks, errors=errors, tracer=tracer)
    if traced.digests != untraced.digests:
        diverged = sum(a != b for a, b in zip(traced.digests, untraced.digests))
        errors.append(f"traced answers differ from untraced ones on {diverged} actions")
    if workload.streams and tracer.streams_served != tracer.streams_requested:
        errors.append(f"traced run streamed {tracer.streams_served} of "
                      f"{tracer.streams_requested} streaming sends")
    residual = tracer.residual_error()
    if residual > 1e-6:
        errors.append(f"layer self times miss an action's time by {residual * 1000:.4f} ms")
    for path in tracer.absent:
        print(f"# absent layer entry point: {path}")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{seed}.jsonl"))

    layers = tracer.layer_metrics(tracing.coordinator_overhead_ms())
    metrics = {}
    for name, value in layers.items():
        if name.endswith("_ms") or name.endswith(".ms"):
            unit = "ms"
        elif name.endswith("_ratio") or name.endswith("_per_returned"):
            unit = "ratio"
        else:
            unit = "count"
        metrics[name] = (value, unit)
    for label in PER_BACKEND:
        times = [t for t, b in zip(untraced.latencies, untraced.backends) if b == label]
        metrics[f"action_ms.{label}"] = (statistics.fmean(times) * 1000.0 if times else 0.0, "ms")
    overhead = sum(traced.latencies) / sum(untraced.latencies) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    print(f"# traced {traced.attempted} actions ({traced.blocks} blocks) against the same "
          f"{untraced.attempted} untraced; stream sends {tracer.streams_served}/"
          f"{tracer.streams_requested} streamed; largest residual {residual * 1e6:.3f} us")
    return metrics, traced


def run_once(args: argparse.Namespace) -> int:
    pin_environment()
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS

    before = calibrate()
    workload = WORKLOADS[args.workload](args.seed)
    errors: list[str] = []
    if args.trace:
        metrics, out = run_traced(workload, args.seed, args.seconds, errors)
    else:
        metrics, out = run_end_to_end(workload, args.seconds, errors)
    after = calibrate()
    print("# settings " + json.dumps(effective_settings(workload, args.seed)))
    print(f"# calibration_ms before={before:.3f} after={after:.3f}")
    for message in errors[:20]:
        print(f"# FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:34s} {value:14.4f} {unit}")
    result = {
        "correct": not errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def repeat(args: argparse.Namespace) -> int:
    """Run the workload N times in fresh processes and print each metric's spread."""
    sys.path.insert(0, ROOT)
    from perfbench.stats import spread

    values: dict[str, list[float]] = {}
    print(f"# {args.workload}: {args.repeat} runs of {args.seconds} s, trace={args.trace}")
    for i in range(args.repeat):
        seed = args.seed + i
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        wall = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run seed={seed} exited {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
            return 1
        result = json.loads(lines[-1])
        calibration = next((line for line in lines if line.startswith("# calibration_ms")), "")
        print(f"run seed={seed} wall={wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {calibration[2:]}", flush=True)
        for line in lines:
            if line.startswith("# FAILED"):
                print("   " + line)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("   " + " ".join(f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()), flush=True)
    print(f"{'metric':34s} {'median':>12s} {'IQR/median':>11s} {'max/min':>9s}")
    for name, series in values.items():
        s = spread(series)
        print(f"{name:34s} {s['median']:12.4f} {s['iqr_frac']:11.4f} {s['max_over_min']:9.3f}")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("table3-20k", "point-session", "cluster-4node"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run N times in fresh processes and print spreads")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program under test is missing: no {os.path.join(SRC, 'repro')}",
              file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
