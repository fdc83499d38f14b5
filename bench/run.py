"""sre-lab benchmark: run one workload closed-loop, check it, report metrics.

    python3 bench/run.py --workload lqre_corpus --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seconds 10

One caller on one thread starts each op only after the previous one has
returned.  A run repeats whole passes over the workload's ops, in an order
drawn from --seed, until at least --seconds have gone by, so every run
measures the same mix of ops; one pass of nash_cards alone takes longer
than that.  Every time is scaled by the machine's speed while it was taken,
read from a reference kernel sampled throughout the run (see speed.py); the
table also prints the wall-clock figures.  Outputs are checked against slow
references after the timed loop.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it wraps the layer functions (see spans.py),
reports per-layer metrics per pass and writes every span to bench/traces/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from spans import Tracer, patched, self_times
from speed import Speedometer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
TRACE_DIR = BENCH / "traces"
WORKLOAD_NAMES = ("lqre_corpus", "nash_cards", "lqre_bracketing", "elicit_qre")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many ops above it


def _diagnostics(result) -> dict:
    return result.diagnostics


# The public functions the traced run wraps, as module.function; the
# extractor keeps the counts a result reports about its own work.
LAYER_FUNCTIONS = (
    ("solvers.solve_lqre", _diagnostics),
    ("solvers.solve_nash_phi", _diagnostics),
    ("solvers.homotopy_trace", None),
    ("solvers.verify_lqre", None),
    ("solvers.verify_nash_phi", None),
    ("solvers.verify_fosd_nash", None),
    ("games.compose", None),
    ("games.product_profile", None),
    ("games.action_lottery", None),
    ("lotteries.fosd_compare", None),
    ("axioms.check_bracketing", None),
    ("testgames.elicit_qre", None),
    ("testgames.make_sure_thing_game", None),
    ("cli.main", None),  # no workload goes through the CLI; stays at zero
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "solutions_found": "count",
    "complete_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name, _ in LAYER_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.total_ms": "ms", f"{name}.self_ms": "ms", f"{name}.failures": "count"})
    units.update(
        {
            "solvers.solve_lqre.iterations": "count",
            "solvers.solve_lqre.starts_converged_ratio": "ratio",
            "solvers.solve_nash_phi.supports_examined": "count",
            "solvers.solve_nash_phi.us_per_support": "us",
            "solvers.solve_nash_phi.truncated": "count",
            "testgames.elicit_qre.probes": "count",
            "op.total_ms": "ms",
            "op.self_ms": "ms",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# statistics on op times and spans
# ---------------------------------------------------------------------------


def tail(times: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, ops ranked above it) for the highest percentile
    with `beyond` ops ranked above it, i.e. the (beyond+1)-th largest time;
    the maximum when there are too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds over a direct call, best of three."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap("probe", noop)
    best = float("inf")
    for _ in range(3):
        with probe.op(0):
            t0 = time.perf_counter()
            for _ in range(calls):
                traced()
            t1 = time.perf_counter()
        t2 = time.perf_counter()
        for _ in range(calls):
            noop()
        t3 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t3 - t2)) / calls)
        probe.spans.clear()
    return max(best, 0.0)


def layer_metrics(spans: list, passes: int, op_seconds: float, cost_per_span: float, slowdowns=None) -> dict:
    """Per-layer metrics per pass from the spans of a traced run.  Span times
    are divided by slowdowns[op id] when given; op_seconds is as read."""
    scale = [1.0 / slowdowns[s.op] if slowdowns else 1.0 for s in spans]
    self_s = [t * k for t, k in zip(self_times(spans), scale)]
    units = per_layer_units()
    totals = {name: Counter() for name, _ in LAYER_FUNCTIONS}
    totals["op"] = Counter()
    extra = Counter()
    for index, span in enumerate(spans):
        agg = totals[span.name]
        agg["calls"] += 1
        agg["total"] += (span.end - span.start) * scale[index]
        agg["self"] += self_s[index]
        agg["failures"] += span.error is not None
        info = span.info
        if span.name == "solvers.solve_lqre":
            if info is not None:
                extra["lqre_iterations"] += info["iterations"]
                extra["lqre_starts"] += info["starts"]
                extra["lqre_converged"] += info["starts_converged"]
            if span.parent is not None and spans[span.parent].name == "testgames.elicit_qre":
                extra["probes"] += 1
        elif span.name == "solvers.solve_nash_phi" and info is not None:
            extra["examined"] += info["enumeration_examined"]
            extra["truncated"] += info["enumeration_truncated"]
    out = {}
    for name, agg in totals.items():
        if name == "op":
            out["op.total_ms"] = 1e3 * agg["total"] / passes
            out["op.self_ms"] = 1e3 * agg["self"] / passes
            continue
        out[f"{name}.calls"] = agg["calls"] / passes
        out[f"{name}.total_ms"] = 1e3 * agg["total"] / passes
        out[f"{name}.self_ms"] = 1e3 * agg["self"] / passes
        out[f"{name}.failures"] = agg["failures"] / passes
    nash_self = totals["solvers.solve_nash_phi"]["self"]
    out.update(
        {
            "solvers.solve_lqre.iterations": extra["lqre_iterations"] / passes,
            "solvers.solve_lqre.starts_converged_ratio": (
                extra["lqre_converged"] / extra["lqre_starts"] if extra["lqre_starts"] else 0.0
            ),
            "solvers.solve_nash_phi.supports_examined": extra["examined"] / passes,
            "solvers.solve_nash_phi.us_per_support": 1e6 * nash_self / extra["examined"] if extra["examined"] else 0.0,
            "solvers.solve_nash_phi.truncated": extra["truncated"] / passes,
            "testgames.elicit_qre.probes": extra["probes"] / passes,
            "trace.overhead_ratio": op_seconds / (op_seconds - len(spans) * cost_per_span),
        }
    )
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in units.items()}


def self_time_gap(spans: list) -> float:
    """Largest gap, over ops, between the op span and the sum of self times in it."""
    self_s = self_times(spans)
    sums = Counter()
    for index, span in enumerate(spans):
        sums[span.op] += self_s[index]
    return max(
        (abs(sums[s.op] - (s.end - s.start)) for s in spans if s.parent is None),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Record:
    item: int
    start: float
    seconds: float  # as read on the speedometer's clock
    out: object
    error: Optional[str]
    scaled: float = 0.0  # seconds at reference speed


def import_program() -> None:
    """Import sre_lab from this checkout's sources, or exit without a result."""
    if not (SRC / "sre_lab" / "__init__.py").is_file():
        sys.exit(f"bench: no sre_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sre_lab

    if Path(sre_lab.__file__).resolve().parent != SRC / "sre_lab":
        sys.exit(f"bench: imported sre_lab from {sre_lab.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "SRE_LAB_THREADS": os.environ.get("SRE_LAB_THREADS"),
    }


def layer_patches(tracer: Tracer):
    replacements = {}
    for name, extract in LAYER_FUNCTIONS:
        module, attr = name.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"sre_lab.{module}"), attr)
        replacements[fn] = tracer.wrap(name, fn, extract)
    return patched("sre_lab", replacements)


def measure(workload, ops: list, order: list[int], seconds: float, tracer: Optional[Tracer], clock):
    records: list[Record] = []
    passes = 0
    start = clock()
    while passes == 0 or clock() - start < seconds:
        for item in order:
            op = ops[item]
            t0 = clock()
            try:
                with tracer.op(len(records), {"item": item, "pass": passes}) if tracer else nullcontext():
                    out = workload.run(op)
                error = None
            except Exception as exc:  # a failed op is counted, and the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(item, t0, clock() - t0, out, error))
        passes += 1
    return records, passes


def check(workload, ops: list, records: list[Record], passes: int):
    """(failed ops, per-pass counts); prints the first few failures."""
    failed = 0
    per_pass = [Counter() for _ in range(passes)]
    for index, rec in enumerate(records):
        problem = rec.error
        if problem is None:
            try:
                problem = workload.check(ops[rec.item], rec.out)
            except Exception as exc:  # a malformed output fails its op
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if failed <= 5:
                print(f"bench: op {index} (item {rec.item}) failed: {problem}", file=sys.stderr)
            continue
        per_pass[index // len(ops)].update(workload.counts(rec.out))
    return failed, per_pass


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]()
    speed = Speedometer()
    clock = speed.clock
    cost = span_cost() if trace else 0.0
    setup = []
    with speed.running():
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            ops = workload.build()
            workloads.warm_up()
            setup.append((t0, clock()))
        order = list(range(len(ops)))
        random.Random(seed).shuffle(order)

        tracer = Tracer(clock) if trace else None
        with layer_patches(tracer) if tracer else nullcontext(), workload.installed():
            records, passes = measure(workload, ops, order, seconds, tracer, clock)
    slowdowns = [speed.slowdown(r.start, r.start + r.seconds) for r in records]
    for r, slowdown in zip(records, slowdowns):
        r.scaled = r.seconds / slowdown
    setup_wall = [t1 - t0 for t0, t1 in setup]
    setup_scaled = [(t1 - t0) / speed.slowdown(t0, t1) for t0, t1 in setup]
    failed, per_pass = check(workload, ops, records, passes)
    counts = dict(per_pass[0])
    counts_repeat = all(c == per_pass[0] for c in per_pass)

    times = [r.seconds for r in records]
    scaled = [r.scaled for r in records]
    # Latency statistics over distinct ops, each timed as the median of its
    # passes, so the sample count does not change with the number of passes.
    repeats, repeats_wall = defaultdict(list), defaultdict(list)
    for r in records:
        repeats[r.item].append(r.scaled)
        repeats_wall[r.item].append(r.seconds)
    op_times = [statistics.median(v) for v in repeats.values()]
    op_times_wall = [statistics.median(v) for v in repeats_wall.values()]
    tail_value, tail_pct, tail_beyond = tail(op_times)
    env = environment()
    print(f"bench: workload {name}  seed {seed}  trace {int(trace)}  passes {passes}  ops {len(records)}  op time {sum(times):.2f} s")
    print(f"bench: env {json.dumps(env)}")
    print(
        f"bench: speed samples {len(speed.samples)}  slowdown over op time {sum(times) / sum(scaled):.3f}"
        f"  (min {min(slowdowns):.3f}, max {max(slowdowns):.3f}); wall-clock figures in brackets"
    )
    print(f"bench: counts per pass {json.dumps(counts, sort_keys=True)}  repeat exactly across passes: {counts_repeat}")
    correct = failed == 0 and counts_repeat

    notes = {}
    if trace:
        gap = self_time_gap(tracer.spans)
        correct = correct and gap <= 1e-9 * (1.0 + sum(times))
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{name}-seed{seed}.jsonl"
        tracer.write(str(path), {"workload": name, "seed": seed, "passes": passes, "env": env})
        print(f"bench: {len(tracer.spans)} spans written to {path}; worst gap between op time and its self times {gap:.2e} s")
        metrics = layer_metrics(tracer.spans, passes, sum(times), cost, slowdowns)
    else:
        results = counts.get("results", 0)
        values = {
            "ops_per_s": len(records) / sum(scaled),
            "op_p50_ms": 1e3 * statistics.median(op_times),
            "op_tail_ms": 1e3 * tail_value,
            "solutions_found": counts.get("solutions", 0),
            "complete_ratio": counts["complete"] / results if results else 1.0,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        notes = {
            "ops_per_s": f"[{len(records) / sum(times):.6g}]",
            "op_p50_ms": f"[{1e3 * statistics.median(op_times_wall):.6g}]",
            "op_tail_ms": f"[{1e3 * tail(op_times_wall)[0]:.6g}] p{tail_pct:.1f} of {len(op_times)} ops, {tail_beyond} above it; each op the median of {passes} passes",
            "setup_s": f"[{statistics.median(setup_wall):.6g}] median of {SETUP_REPEATS}",
        }
        print(f"  {'failed_ratio':<44}{failed / len(records):>14.6g} ratio  ({failed} of {len(records)} ops)")
    for key, metric in metrics.items():
        print(f"  {key:<44}{metric['value']:>14.6g} {metric['unit']:<6} {notes.get(key, '')}".rstrip())
    return {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or child.returncode
        if child.returncode == 0 and lines:
            combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
