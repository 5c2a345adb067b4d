#!/usr/bin/env python3
"""Run one poolal benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

Every workload is a closed loop in this one process.  ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` runs each unit
both untraced and traced, and reports per-layer metrics from the traced
passes and the tracing overhead.  Every unit's output is checked against
``reference.json``, the digests of the outputs at the commit that
defined the benchmark.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process (untraced,
then traced when ``--trace 1``) and prints every metric of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep", "grid", "trees")
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_p90_ms", "ms"),
    ("cpu_per_unit_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--units", type=int, help="run exactly this many units instead of --seconds")
    ap.add_argument(
        "--unchecked-inputs",
        action="store_true",
        help="draw inputs outside the reference pool; digests are then not checked",
    )
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Runs units of one workload and checks each output's digest."""

    def __init__(self, workload, reference: list[str] | None, scratch: Path):
        from workloads import digest  # imports poolal, so not at module level

        self.digest = digest
        self.workload = workload
        self.reference = reference
        self.scratch = scratch
        self.output_bytes = 0
        self.failures_logged = 0

    def run(self, ident: int) -> tuple[float, str | None]:
        """Seconds taken and the output digest, or None when the unit failed."""
        start = time.perf_counter()
        try:
            data = self.workload.unit(ident, self.scratch)
        except Exception:  # a failed unit is counted, and the loop goes on
            seconds = time.perf_counter() - start
            self._fail(ident, traceback.format_exc())
            return seconds, None
        seconds = time.perf_counter() - start
        self.output_bytes = len(data)
        d = self.digest(data)
        if self.reference is not None and ident < len(self.reference) and d != self.reference[ident]:
            self._fail(ident, f"digest {d} differs from reference {self.reference[ident]}")
            return seconds, None
        return seconds, d

    def _fail(self, ident: int, why: str) -> None:
        if self.failures_logged < 5:
            log(f"unit {self.workload.name}:{ident} failed: {why}")
        self.failures_logged += 1


def load_reference(name: str, unchecked: bool) -> list[str] | None:
    if unchecked:
        return None
    table = json.loads((HERE / "reference.json").read_text())
    return table["workloads"][name]["digests"]


def probe_setups(args, count: int) -> tuple[list[float], int]:
    """Set-up seconds from ``count`` fresh processes, and how many of them failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    if args.unchecked_inputs:
        cmd.append("--unchecked-inputs")
    times, failed = [], 0
    for _ in range(count):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"set-up probe timed out after {PROBE_TIMEOUT_S} s")
            failed += 1
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"set-up probe failed:\n{proc.stderr}")
            failed += 1
            continue
        probe = json.loads(lines[-1])
        if probe["failed"]:
            log(f"set-up probe's warm-up unit failed:\n{proc.stderr}")
            failed += 1
        else:
            times.append(probe["setup_s"])
    return times, failed


def finished(args, workload, units: int, elapsed: float) -> bool:
    """Exactly ``--units`` units, else ``--seconds`` rounded up to whole passes over the pool.

    Per-instance cost differs by up to a third, so a run that stopped
    partway through a pass would add the seed's choice of idents to the
    run-to-run spread.
    """
    if args.units:
        return units >= args.units
    return elapsed >= args.seconds and units % workload.pool == 0


def measure_untraced(args, runner, idents) -> tuple[dict, int, int]:
    times, failed = [], 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        seconds, d = runner.run(next(idents))
        times.append(seconds)
        failed += d is None
        elapsed = time.perf_counter() - start
        if finished(args, runner.workload, len(times), elapsed):
            break
    cpu = time.process_time() - cpu0
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    metrics = {
        "units_per_s": (len(times) - failed) / elapsed,
        "unit_p50_ms": statistics.median(times) * 1e3,
        "unit_p90_ms": p90 * 1e3,
        "cpu_per_unit_ms": cpu / len(times) * 1e3,
    }
    return metrics, len(times), failed


def measure_traced(args, runner, idents, tracer, setup_totals) -> tuple[dict, int, int]:
    """Two passes per unit, untraced and traced, in alternating order.

    Counters are summed over the first ``count_units`` units, which the
    seed fixes, so they repeat exactly; the first unit is traced twice
    and must give identical counters.  Times average over every unit.
    """
    import layers

    wl = runner.workload
    agg: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    counted: Counter = Counter()
    all_nodes = 0
    untraced_s = traced_s = 0.0
    units = failed = 0
    start = time.perf_counter()

    def traced_pass(ident):
        tracer.counters.clear()
        tracer.scratch.clear()
        mark = len(tracer.spans)
        tracer.enable()
        try:
            seconds, d = runner.run(ident)
        finally:
            tracer.disable()
        totals = tracer.aggregate(mark)
        counts = layers.unit_counts(tracer, totals)
        counts["cli.output_bytes"] = runner.output_bytes if wl.via_cli else 0
        return seconds, d, totals, counts, mark

    while True:
        ident = next(idents)
        tracer.unit = units
        # alternate which pass goes first, so warm caches favour neither
        if units % 2:
            s_traced, d_traced, totals, counts, mark = traced_pass(ident)
            s_plain, d_plain = runner.run(ident)
        else:
            s_plain, d_plain = runner.run(ident)
            s_traced, d_traced, totals, counts, mark = traced_pass(ident)
        ok = d_plain is not None and d_traced == d_plain
        if d_plain is not None and d_traced is not None and d_traced != d_plain:
            log(f"unit {wl.name}:{ident}: traced digest {d_traced} != untraced {d_plain}")
        if units == 0:
            _, _, _, again, mark2 = traced_pass(ident)
            tracer.drop_spans(mark2)
            if again != counts:
                diff = {k: (counts.get(k), again.get(k)) for k in counts if counts.get(k) != again.get(k)}
                log(f"unit {wl.name}:{ident}: counters did not repeat: {diff}")
                ok = False
        if units < wl.count_units:
            counted.update(counts)
        else:
            tracer.drop_spans(mark)
        for name, row in totals.items():
            for i in range(3):
                agg[name][i] += row[i]
        all_nodes += counts["optimal.nodes"]
        untraced_s += s_plain
        traced_s += s_traced
        units += 1
        failed += not ok
        if finished(args, wl, units, time.perf_counter() - start):
            break

    n_counted = min(units, wl.count_units)
    metrics: dict[str, float] = {}
    for name in tracer.names:
        if name in layers.WITH_CALLS:
            metrics[f"{name}.calls"] = counted[f"{name}.calls"] / n_counted
        if name == "mixture.grid_task":
            # cached per process: its cost is the one build in set-up, so
            # report the run's total rather than a per-unit share
            metrics[f"{name}.self_ms"] = (agg[name][1] + setup_totals.get(name, [0, 0])[1]) / 1e6
        else:
            metrics[f"{name}.self_ms"] = agg[name][1] / units / 1e6
    for name in [name for name, _ in layers.COUNTERS] + ["cli.output_bytes"]:
        metrics[name] = counted[name] / n_counted
    oracle_ns = sum(agg[name][2] for name in layers.ORACLES)
    metrics["optimal.nodes_per_s"] = all_nodes / (oracle_ns / 1e9) if oracle_ns else 0.0
    used = counted["robustness.perturbations_used"]
    metrics["robustness.perturb_attempts_per_accept"] = (
        counted["core.perturb.calls"] / used if used else 0.0
    )
    metrics["trace_overhead"] = traced_s / untraced_s
    return metrics, units, failed


def run_one(args) -> int:
    # numpy's import, most of it OpenBLAS starting its threads, is the same
    # at every commit and moves by a third with the machine's load, so the
    # set-up clock starts after it
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import poolal

    if Path(poolal.__file__).resolve().parent != (SRC / "poolal").resolve():
        log(f"error: imported poolal from {poolal.__file__}, not from {SRC}")
        return 2
    import layers
    import manifest
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    reference = load_reference(wl.name, args.unchecked_inputs)
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = OUT / f"unit-{wl.name}-{os.getpid()}.out"
    runner = Runner(wl, reference, scratch)
    idents = workloads.idents(wl, args.seed, args.unchecked_inputs)
    tracer = Tracer(layers.TARGETS) if args.trace else None
    if tracer:
        tracer.enable()
    _, warm_digest = runner.run(next(idents))
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.disable()
    if args.probe_setup:
        scratch.unlink(missing_ok=True)
        print(json.dumps({"setup_s": setup_s, "failed": int(warm_digest is None)}))
        return 0

    info = manifest.manifest(
        ROOT,
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        seconds=args.seconds,
        digests="unchecked" if args.unchecked_inputs else "checked",
    )
    threads = info["blas"]["threads"]
    if threads is not None and threads > info["nproc"]:
        log(f"error: {threads} BLAS threads exceed the {info['nproc']} usable CPUs")
        return 2

    attempted, failed = 1, int(warm_digest is None)
    if tracer:
        setup_totals = tracer.aggregate(0)
        metrics, units, unit_failed = measure_traced(args, runner, idents, tracer, setup_totals)
        info["spans_written"] = tracer.write_spans(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        info["counted_units"] = min(units, wl.count_units)
        spec = [(name, unit) for name, unit, _ in layers.per_layer_spec()]
    else:
        setups = [setup_s]
        probe_times, probe_failed = probe_setups(args, wl.probes)
        setups += probe_times
        attempted += wl.probes
        failed += probe_failed
        metrics, units, unit_failed = measure_untraced(args, runner, idents)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info["setup_runs_s"] = setups
        spec = list(END_TO_END)
    scratch.unlink(missing_ok=True)
    attempted += units
    failed += unit_failed
    metrics["failed_ratio"] = failed / attempted
    info["units"] = units
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    record = dict(result, manifest=info)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for name, unit in spec:
        print(f"{wl.name:7s} {name:42s} {metrics[name]:16.6g} {unit}")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.units is not None:
                cmd += ["--units", str(args.units)]
            if args.unchecked_inputs:
                cmd.append("--unchecked-inputs")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(f"error: {name} (trace {trace}) exited with {proc.returncode}")
                status = proc.returncode or 1
                combined["correct"] = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poolal" / "__init__.py").is_file():
        log(f"error: no poolal sources under {SRC}; run from a checkout of the repository")
        return 2
    # numpy reads this when it loads OpenBLAS: never more BLAS threads than usable CPUs
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
