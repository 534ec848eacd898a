"""curvemeet benchmark: time to a certified ball and window-parity throughput.

Runs curvemeet as a library, in this one process and thread, in a closed
loop: one caller that waits for each result.  Every output is checked
against the independent ground truth in perfbench/truth.py.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload diagonals --seed 1 --seconds 10 --trace 0

With --trace 1 the run measures untraced rounds first, then as many rounds
again with spans around every layer boundary, and reports the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import tracer, workloads  # noqa: E402
from perfbench.clock import Clock  # noqa: E402

SETUP_REPEATS = 31


def import_curvemeet():
    """Import curvemeet and its CLI module afresh from this checkout's src."""
    for name in [m for m in sys.modules if m == "curvemeet" or m.startswith("curvemeet.")]:
        del sys.modules[name]
    cm = importlib.import_module("curvemeet")
    importlib.import_module("curvemeet.cli")
    if Path(cm.__file__).resolve().parent != SRC / "curvemeet":
        raise ImportError(f"curvemeet was imported from {cm.__file__}, not from {SRC}")
    return cm


def setup(pairs):
    """Median of: import curvemeet, build and extend the oracles, in
    reference seconds and in raw seconds."""
    clock = Clock()

    def once():
        cm = import_curvemeet()
        for pair in pairs:
            pair.build(cm)
        return cm

    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # drop the previous import's modules, as a new process would
        cm, seconds, raw_seconds = clock.measure(once)
        samples.append(seconds)
        raw.append(raw_seconds)
    return cm, statistics.median(samples), statistics.median(raw)


def measure(state, seconds, rounds=None):
    """Whole rounds until `seconds` have passed, or exactly `rounds`."""
    tally = workloads.Tally()
    done = 0
    start = time.perf_counter()
    while done < rounds if rounds else done == 0 or time.perf_counter() - start < seconds:
        workloads.run_round(state, tally)
        done += 1
    return tally, done, time.perf_counter() - start


def _op_seconds(tally):
    """Reference seconds the operations of a tally took."""
    return sum(tally.ball_s) + sum(q[4] for q in tally.samples)


def end_to_end(tally, setup_s):
    times = [q[4] for q in tally.samples]
    ones = [q for q in tally.samples if q[3] == 1]
    # windows has no ball: its parity-1 answers are the certified enclosures
    ball = tally.ball_s or [q[4] for q in ones]
    bits = tally.bits or [max(workloads.bits(i[1] - i[0], j[1] - j[0]) for _, i, j, *_ in ones)]
    return {
        "setup_s": (setup_s, "s"),
        "time_to_ball_s": (statistics.median(ball), "s"),
        "certified_bits": (min(bits), "bits"),
        "parity_per_s": (len(times) / sum(times), "queries/s"),
        "parity_median_ms": (1000 * statistics.median(times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.PAIRS_USED), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvemeet" / "__init__.py").is_file():
        print(f"error: no curvemeet sources under {SRC}", file=sys.stderr)
        return 2
    pairs = workloads.make_pairs()
    queries = workloads.make_windows(args.workload, args.seed, pairs)
    cm, setup_s, setup_raw_s = setup([pairs[name] for name in workloads.PAIRS_USED[args.workload]])
    state = workloads.State(cm, args.workload, pairs, queries)

    tally, rounds, wall = measure(state, args.seconds)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "wall_s": wall,
        "setup_raw_s": setup_raw_s,
        "ball_s": tally.ball_s,
        "ball_raw_s": tally.ball_raw_s,
        "queries": tally.samples,
    }
    if args.trace:
        rec = tracer.Recorder()
        state.clock = Clock(on_sample=rec.pause)
        tracer.install(cm, rec)
        try:
            traced, _, traced_wall = measure(state, args.seconds, rounds)
        finally:
            rec.unpatch()
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.errors += traced.errors
        tally.wrong += traced.wrong
        layers = tracer.layer_metrics(rec)
        untraced_s, traced_s = _op_seconds(tally), _op_seconds(traced)
        # the traced rounds' wall time, checks included, calibration left out
        phase_s = traced_wall - state.clock.calibration_s
        layers["trace.wall_s"] = (traced_s, "s")
        layers["trace.untraced_wall_s"] = (untraced_s, "s")
        layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
        layers["trace.self_share"] = (sum(rec.self_s.values()) / phase_s, "ratio")
        metrics = layers
        report["spans"] = rec.spans()
    else:
        metrics = end_to_end(tally, setup_s)

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(result, errors=tally.errors, wrong=tally.wrong)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str) + "\n")
    for line in tally.errors + tally.wrong:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
