"""Run one workload in this fresh process and print its raw measurements.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
process is new, so every lru_cache in jcouple starts cold.  Blocks run until
the time spent inside operations reaches --seconds and at least --min-blocks
have run, or exactly --blocks of them when replaying a run (the traced
replay uses this).  Correctness gates run outside the timed region; the last
line of stdout is one JSON object.  Between operations the child reads the
host gauge (gauge.py), and it reports each operation's time both as
measured and scaled by the gauge.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import signal
import sys
import time
from array import array

import gates
import inputs
from gauge import HostGauge
from tracing import DeadlineExceeded, Tracer

clock = time.perf_counter

# A radical operation that runs longer than this on the gauge's nominal host
# is abandoned and counted as a missed deadline: the timer is set to this
# times the gauge's current speed factor, so a slow spell on the host
# does not turn more operations into misses.  It sits about 15x above the
# median operation (0.3 ms); operation times spread over four decades, so
# about 1% of operations lie within 10% of it.  A longer deadline spends most
# of a run on the misses and leaves too few operations for a steady median.
RADICAL_DEADLINE_S = 0.005
# Kernel results kept for the sympy cross-check: every KERNEL_CHECK_STRIDE-th
# operation, from a seeded offset, at most KERNEL_CHECK_MAX of them.
KERNEL_CHECK_STRIDE = 97
KERNEL_CHECK_MAX = 32


class Sink(io.TextIOBase):
    """Stand-in for stdout: keeps the text and times every finished line.

    A line's time runs from the end of the previous line (or `begin`) to its
    own end; further lines finished by the same write take no time.  Given a
    gauge, the sink reads it between lines, outside the line times, and
    notes which reading precedes each line.
    """

    def __init__(self, gauge: HostGauge | None = None) -> None:
        self.chunks: list[str] = []
        self.lines = array("d")
        self.at_reading = array("i")
        self.paused = 0.0  # seconds spent reading the gauge
        self.gauge = gauge
        self.resumed = 0.0
        self.reading = -1

    def begin(self, start: float) -> None:
        self.resumed = start
        if self.gauge is not None:
            self.reading = len(self.gauge.readings) - 1

    def write(self, text: str) -> int:
        self.chunks.append(text)
        lines = text.count("\n")
        if lines:
            now = clock()
            self.lines.append(now - self.resumed)
            self.lines.extend([0.0] * (lines - 1))
            self.at_reading.extend([self.reading] * lines)
            self.resumed = now
            if self.gauge is not None:
                self.gauge.between_ops()
                self.reading = len(self.gauge.readings) - 1
                self.resumed = clock()
                self.paused += self.resumed - now
        return len(text)


class Runner:
    """Shared bookkeeping: per-operation latencies and outcome counts."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        # seconds, math.inf for a failed op; a flat array keeps the benchmark's
        # own bookkeeping from inflating the child's peak RSS
        self.latencies = array("d")
        self.gauge = HostGauge()
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.missed = array("i")  # indices of ops that missed their deadline
        self.problems: list[str] = []

    def record(self, ops, at_reading=None) -> None:
        self.latencies.extend(ops)
        self.gauge.tag(len(ops), at_reading)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)

    def check(self) -> None:
        """Gates that need the whole run; per-op gates already ran."""

    def extra(self) -> dict:
        return {}


class CliRunner(Runner):
    """In-process cli.main per argv; an op is one record or one whole argv."""

    def __init__(self, tracer: Tracer | None, per_record: bool) -> None:
        super().__init__(tracer)
        from jcouple import cli

        self.cli = cli
        self.per_record = per_record
        self.expected = gates.load_expected()
        self.first_text: dict[str, tuple[list[str], str]] = {}
        self.records = 0
        self.stdout_bytes = 0

    def run_block(self, block: list) -> None:
        for argv in block:
            self.gauge.between_ops()
            # one record is too short to read the gauge around, so per-record
            # runs read it between records too
            sink = Sink(self.gauge if self.per_record else None)
            saved, sys.stdout = sys.stdout, sink
            start = clock()
            sink.begin(start)
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code = repr(exc)
            finally:
                end = clock()
                sys.stdout = saved
            self.busy += end - start - sink.paused
            text = "".join(sink.chunks)
            at_reading = None
            if self.per_record:
                ops, at_reading = list(sink.lines), sink.at_reading
            else:
                ops = [end - start]
            self.records += len(sink.lines)
            self.stdout_bytes += len(text.encode())
            self.attempted += max(1, len(ops))
            problem = f"{' '.join(argv)}: exit {code}" if code != 0 else None
            problem = problem or gates.check_digest(argv, text, self.expected)
            if problem:
                self.fail(max(1, len(ops)), problem)
                ops, at_reading = [math.inf] * max(1, len(ops)), None
            else:
                self.first_text.setdefault(" ".join(argv), (argv, text))
            self.record(ops, at_reading)

    def check(self) -> None:
        # content gates run once per distinct argv: a matching digest makes
        # every later output of that argv identical to the one checked here
        for argv, text in self.first_text.values():
            problem = None
            if argv[0] == "schemes":
                problem = gates.check_schemes(argv, text)
            elif argv[0] == "kepler":
                problem = gates.check_kepler(argv, text)
            if problem:
                self.fail(1, problem)

    def extra(self) -> dict:
        return {"records": self.records, "stdout_bytes": self.stdout_bytes}


class KernelRunner(Runner):
    """Library calls: cg(CgArgs(...)) or three_j(...) on one seeded tuple."""

    def __init__(self, tracer: Tracer | None, seed: int) -> None:
        super().__init__(tracer)
        from jcouple import numerics, wigner

        self.wigner = wigner
        self.half = numerics.HalfInt
        self.offset = seed % KERNEL_CHECK_STRIDE
        self.kept: list[tuple[str, tuple, object]] = []

    def run_block(self, block: list) -> None:
        wigner, half = self.wigner, self.half
        for kind, twices in block:
            self.gauge.between_ops()
            index = self.attempted
            self.attempted += 1
            start = clock()
            try:
                j1, m1, j2, m2, j, m = (half(t) for t in twices)
                if kind == "cg":
                    value = wigner.cg(wigner.CgArgs(j1, m1, j2, m2, j, m))
                else:
                    value = wigner.three_j(j1, m1, j2, m2, j, -m)
            except Exception as exc:
                end = clock()
                self.busy += end - start
                self.record([math.inf])
                self.fail(1, f"{kind}{twices}: {exc!r}")
                continue
            end = clock()
            self.busy += end - start
            self.record([end - start])
            if index % KERNEL_CHECK_STRIDE == self.offset and len(self.kept) < KERNEL_CHECK_MAX:
                self.kept.append((kind, twices, value))

    def check(self) -> None:
        for kind, twices, value in self.kept:
            problem = gates.check_kernel(kind, twices, value.signed_square())
            if problem:
                self.fail(1, problem)


def _raise_deadline(signum, frame) -> None:
    raise DeadlineExceeded()


def _plain_terms(value) -> list:
    return [(r, c.re, c.im) for r, c in value.items()]


class RadicalRunner(Runner):
    """to_sum of two coefficients, their surd-sum product, and the phased sum."""

    def __init__(self, tracer: Tracer | None) -> None:
        super().__init__(tracer)
        from jcouple import numerics, wigner

        self.wigner = wigner
        self.numerics = numerics
        self.half = numerics.HalfInt
        self.sums: list[tuple[list, list]] = []  # (completed op records, accumulated terms)
        signal.signal(signal.SIGALRM, _raise_deadline)

    def _coefficient(self, twices):
        return self.wigner.cg(self.wigner.CgArgs(*(self.half(t) for t in twices)))

    def run_block(self, block: list) -> None:
        if self.tracer:
            self.tracer.on = False
        pairs = [(self._coefficient(ta), self._coefficient(tb), k) for ta, tb, k in block]
        if self.tracer:
            self.tracer.on = True
        acc = self.numerics.PhasedSurdSum.zero()
        done_ops = []
        for a, b, k in pairs:
            self.gauge.between_ops()
            self.attempted += 1
            done = False
            start = clock()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, RADICAL_DEADLINE_S * self.gauge.speed())
                    u = a.to_sum()
                    v = b.to_sum()
                    product = u * v
                    acc = acc + product.times_i_pow(k)
                    done = True
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded:
                pass
            end = clock()
            self.busy += end - start
            self.record([end - start])
            if not done:
                self.missed.append(len(self.latencies) - 1)
                if self.tracer:
                    self.tracer.close_open_spans()
                continue
            done_ops.append(((a.sign, a.radicand), (b.sign, b.radicand), k, u, v, product))
        records = [
            (sa, sb, k, _plain_terms(u), _plain_terms(v), _plain_terms(p))
            for sa, sb, k, u, v, p in done_ops
        ]
        self.sums.append((records, _plain_terms(acc)))

    def check(self) -> None:
        for records, acc_terms in self.sums:
            expected_acc: dict = {}
            for sa, sb, k, u, v, p in records:
                problem = (
                    gates.check_to_sum(*sa, u)
                    or gates.check_to_sum(*sb, v)
                    or (None if p == gates.as_terms(gates.product_terms(u, v)) else "product")
                )
                if problem:
                    self.fail(1, problem)
                expected_acc = gates.add_terms(
                    expected_acc, gates.times_i_pow(gates.product_terms(u, v), k)
                )
            if acc_terms != gates.as_terms(expected_acc):
                self.fail(1, "phased sum differs from the reference sum")


def make_runner(workload: str, seed: int, tracer: Tracer | None) -> Runner:
    if workload == "audit-grid":
        return CliRunner(tracer, per_record=True)
    if workload == "schemes-spectra":
        return CliRunner(tracer, per_record=False)
    if workload == "kernel-sweep":
        return KernelRunner(tracer, seed)
    return RadicalRunner(tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-blocks", type=int, default=1)
    parser.add_argument("--blocks", type=int, help="run exactly this many blocks")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    runner = make_runner(args.workload, args.seed, tracer)
    blocks_done = 0
    for block in inputs.blocks(args.workload, args.seed):
        runner.run_block(block)
        blocks_done += 1
        if args.blocks is not None:
            if blocks_done >= args.blocks:
                break
        elif runner.busy >= args.seconds and blocks_done >= args.min_blocks:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.gauge.between_ops(force=True)
    if tracer:
        tracer.on = False
    runner.check()
    result = {
        "workload": args.workload,
        "blocks": blocks_done,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "missed_ops": list(runner.missed),
        "busy_s": runner.busy,
        "latencies_s": list(runner.latencies),
        "scaled_s": runner.gauge.scale(runner.latencies),
        "gauge_s": list(runner.gauge.readings),
        "peak_rss_mb": peak_rss_mb,
        "problems": runner.problems,
        **runner.extra(),
    }
    if tracer:
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
