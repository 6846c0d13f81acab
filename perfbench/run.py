"""The jcouple benchmark: one workload per invocation, measured in fresh processes.

    python3 perfbench/run.py --workload audit-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src, so
nothing needs installing.  Each invocation

1. times fresh interpreters that import jcouple and jcouple.cli and build
   the CLI parser (setup_s is the median of their wall times);
2. with --trace 0, runs the workload for --seconds of operation time in one
   fresh child process (perfbench/child.py) and reports the end-to-end
   metrics: ops_per_s, op_ms_p50, op_ms_p99, completed_share, peak_rss_mb
   and setup_s.  Every time behind them is scaled by the host gauge
   (gauge.py) read next to it, in the same process;
3. with --trace 1, replays a fixed number of blocks of every workload twice,
   untraced and traced, each in a fresh child, and reports per-layer calls,
   self time and work ratios named <workload>.<layer>.<stat>, the tracing
   overhead per workload, cli.import_ms and the sympy external baseline.

Operations that raise or give a wrong output are `failed`; radical
operations that overrun their deadline are not failed outputs but missed
deadlines, which lower completed_share.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fewest blocks a timed run makes: at least 1000 operations, so that ten lie
# beyond the p99 and op_ms_p99 is a p99 in every run.
MIN_BLOCKS = {"audit-grid": 1, "kernel-sweep": 13, "radical": 125, "schemes-spectra": 25}
# Set-up interpreters timed before and again after the timed child, so that
# setup_s is a median over the whole run rather than one moment of it.
SETUP_RUNS = 6
SETUP_RUNS_TRACE = 7
# Prints the import-and-parser seconds and a gauge reading taken after them,
# in the same process; the parent scales the interpreter's wall time by it.
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import jcouple, jcouple.cli; "
    "jcouple.cli.build_parser(); t = time.perf_counter() - t; import sys; "
    f"sys.path.insert(0, {str(HERE)!r}); import gauge; print(t, gauge.reading())"
)
# Whole run, child processes included, must end well inside 180 s.
RUN_BUDGET_S = 170.0
# Blocks replayed per workload by --trace 1: each replay takes about 2-3 s
# untraced at the commit that introduced the benchmark.
TRACE_BLOCKS = {"audit-grid": 1, "kernel-sweep": 64, "radical": 50, "schemes-spectra": 1}
# Spans reported per workload; each is exercised by that workload's inputs.
TRACE_SPANS = {
    "audit-grid": (
        "cli.main",
        "timerev.audit_first_symmetry",
        "timerev.audit_second_symmetry",
        "timerev.kramers_overlap",
        "coupling.enumerate_chains",
        "coupling.generalized_coupling_coefficient",
        "coupling.expand_coupled_state",
        "wigner.cg",
        "numerics.factorial_factorized",
        "numerics.to_sum",
        "numerics.PhasedSurdSum.add",
    ),
    "kernel-sweep": ("wigner.cg", "wigner.three_j", "numerics.factorial_factorized"),
    "radical": ("numerics.to_sum", "numerics.PhasedSurdSum.add"),
    "schemes-spectra": (
        "cli.main",
        "coupling.enumerate_coupling_trees",
        "coupling.export_dot",
        "kepler.spectrum",
        "kepler.merge_spectrum",
    ),
}
SYMPY_BASELINE_S = 1.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def measure_setup(deadline: float, runs: int) -> tuple[list[float], list[float]]:
    """Gauge-scaled wall seconds of whole fresh interpreters, and their import ms.

    The gauge reading inside each interpreter is left out of its wall time.
    """
    walls, imports = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=_remaining(deadline),
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"importing jcouple failed: {proc.stderr.strip()[-300:]}")
        seconds, reading = (float(x) for x in proc.stdout.split())
        walls.append((wall - reading) * gauge.NOMINAL_S / reading)
        imports.append(seconds * 1e3)
    return walls, imports


def run_child(workload: str, seed: int, deadline: float, *, seconds: float = 0.0,
              min_blocks: int = 1, blocks: int | None = None, trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if blocks is not None:
        cmd += ["--blocks", str(blocks)]
    else:
        cmd += ["--seconds", str(seconds), "--min-blocks", str(min_blocks)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child exceeded the run budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """99, or the highest of 95/90/75/50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 50


def timings(latencies: list[float], missed: list[int], completed: int, busy_s: float,
            q: float) -> tuple[float, float, float]:
    """ops_per_s, op_ms_p50 and the op_ms_p99 slot (percentile q)."""
    # a failed op counts as over any limit, and as the whole timed span, which
    # no single op can exceed; a timed-out op counts as over any limit too,
    # but the time it did take is what it cost the run
    spent = [min(x, busy_s) for x in latencies]
    ordered = list(spent)
    for i in missed:
        ordered[i] = busy_s
    ordered.sort()
    return (completed / math.fsum(spent), percentile(ordered, 50) * 1e3,
            percentile(ordered, q) * 1e3)


def end_to_end(result: dict, setup_walls: list[float]) -> tuple[dict, list[str]]:
    attempted, busy = result["attempted"], result["busy_s"]
    missed = result["missed_ops"]
    completed = attempted - result["failed"] - len(missed)
    samples = len(result["scaled_s"])
    q = tail_percentile(samples)
    ops_per_s, p50, tail = timings(result["scaled_s"], missed, completed, busy, q)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p99": (tail, "ms"),
        "completed_share": (completed / attempted, "share"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }
    unscaled = timings(result["latencies_s"], missed, completed, busy, q)
    gauge_ms = statistics.median(result["gauge_s"]) * 1e3
    notes = [
        f"{result['workload']}: {attempted} ops in {result['blocks']} blocks, "
        f"{busy:.3f} s inside ops; {completed} completed, "
        f"{result['failed']} failed, {len(missed)} missed the deadline",
        f"{len(result['gauge_s'])} gauge readings, median {gauge_ms:.3f} ms (nominal "
        f"{gauge.NOMINAL_S * 1e3:.3f} ms); unscaled: ops_per_s {unscaled[0]:.6g}, "
        f"op_ms_p50 {unscaled[1]:.6g}, op_ms_p99 {unscaled[2]:.6g}",
        f"op_ms_p99 is the p{q} of {samples} samples",
    ]
    return metrics, notes


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scaled_busy(result: dict) -> float:
    """Gauge-scaled seconds inside operations."""
    return math.fsum(min(x, result["busy_s"]) for x in result["scaled_s"])


def per_layer(workload: str, plain: dict, traced: dict) -> dict:
    spans, counts = traced["spans"], traced["counts"]
    out = {}
    for span in TRACE_SPANS[workload]:
        out[f"{workload}.{span}.calls"] = (spans[span]["calls"], "count")
        out[f"{workload}.{span}.self_ms"] = (spans[span]["self_ms"], "ms")
    if workload in ("audit-grid", "kernel-sweep"):
        out[f"{workload}.wigner.cg.distinct_share"] = (
            _share(counts.get("wigner.cg.seen", 0), spans["wigner.cg"]["calls"]), "share")
    if workload == "audit-grid":
        name = "coupling.generalized_coupling_coefficient"
        out[f"{workload}.{name}.nz_share"] = (
            _share(counts.get(f"{name}.nonzero", 0), spans[name]["calls"]), "share")
        out[f"{workload}.coupling.expand_coupled_state.nz_share"] = (
            _share(counts.get("coupling.expand_coupled_state.amplitudes", 0),
                   counts.get("coupling.expand_coupled_state.tuples", 0)), "share")
    if workload == "radical":
        out[f"{workload}.numerics.to_sum.timeouts"] = (
            counts.get("numerics.to_sum.timeouts", 0), "count")
    if workload == "schemes-spectra":
        out[f"{workload}.coupling.trees.useful_share"] = (
            _share(counts.get("coupling.trees.emitted", 0),
                   counts.get("coupling.trees.built", 0)), "share")
    if workload in ("audit-grid", "schemes-spectra"):
        out[f"{workload}.cli.records"] = (traced["records"], "count")
        out[f"{workload}.cli.stdout_bytes"] = (traced["stdout_bytes"], "bytes")
    out[f"{workload}.trace.overhead_ms"] = ((_scaled_busy(traced) - _scaled_busy(plain)) * 1e3, "ms")
    return out


def sympy_baseline(seed: int) -> float:
    """sympy clebsch_gordan calls per second on the first kernel-sweep tuples."""
    from gates import sympy_signed_square

    sympy_signed_square("cg", (1, 1, 1, -1, 0, 0))  # import and first-call set-up
    tuples = (twices for block in inputs.blocks("kernel-sweep", seed) for _, twices in block)
    done, start = 0, time.perf_counter()
    while time.perf_counter() - start < SYMPY_BASELINE_S:
        sympy_signed_square("cg", next(tuples))
        done += 1
    return done / (time.perf_counter() - start)


def main() -> int:
    parser = argparse.ArgumentParser(description="jcouple benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "jcouple" / "__init__.py").is_file():
        print(f"perfbench: no jcouple package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        measure_setup(deadline, 1)  # writes the bytecode caches; users pay that once
        if args.trace:
            import_ms = measure_setup(deadline, SETUP_RUNS_TRACE)[1]
            metrics, notes, attempted, failed = {}, [], 0, 0
            for workload in inputs.WORKLOADS:
                blocks = TRACE_BLOCKS[workload]
                plain = run_child(workload, args.seed, deadline, blocks=blocks)
                traced = run_child(workload, args.seed, deadline, blocks=blocks, trace=True)
                metrics.update(per_layer(workload, plain, traced))
                attempted += plain["attempted"] + traced["attempted"]
                failed += plain["failed"] + traced["failed"]
                notes += [f"{workload}: {p}" for p in plain["problems"] + traced["problems"]]
                for span, row in sorted(traced["spans"].items()):
                    if row["calls"]:
                        notes.append(f"{workload} {span}: {row['calls']} calls, "
                                     f"self {row['self_ms']:.1f} ms, total {row['total_ms']:.1f} ms")
            metrics["cli.import_ms"] = (statistics.median(import_ms), "ms")
            metrics["baseline.sympy_cg.ops_per_s"] = (sympy_baseline(args.seed), "1/s")
        else:
            setup_walls = measure_setup(deadline, SETUP_RUNS)[0]
            result = run_child(args.workload, args.seed, deadline, seconds=args.seconds,
                               min_blocks=MIN_BLOCKS[args.workload])
            setup_walls += measure_setup(deadline, SETUP_RUNS)[0]
            metrics, notes = end_to_end(result, setup_walls)
            notes += result["problems"]
            attempted, failed = result["attempted"], result["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
